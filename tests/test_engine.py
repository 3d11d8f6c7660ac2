import json
import random
from fractions import Fraction
from itertools import product
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hochschild import cli, engine, grading, ideals, koszul
from hochschild.catalog import catalog_instance, catalog_names
from hochschild.engine import (
    Analysis,
    PreconditionError,
    _degree,
    _graded,
    _module_totals,
    _strand_blocks,
    _top_degrees,
    _window,
    analyze,
    kernel_description,
)
from hochschild.grading import NotWeightedHomogeneousError, WeightSystem
from hochschild.ideals import (
    INFINITE,
    buchberger,
    colon_ideal,
    milnor_number,
    standard_monomials,
)
from hochschild.koszul import KoszulComplex, chain_complex, cochain_complex
from hochschild.linalg import rank_dense, rank_sparse
from hochschild.parsing import parse_polynomial
from hochschild.poly import Polynomial, monomial_str, monomial_strs
from hochschild.series import poincare_dims
from reference import (
    block_slice_columns,
    lowest_module_shift,
    report_payload,
    verify_infinite_part,
)
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
    assert r.notes == [] and r.kernel is None
    assert all(d.structure is None for d in r.degrees)
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
    assert r.notes == []
    assert [d.p for d in r.degrees
            if d.expected_graded != d.oracle_graded] == [2]
    assert r.crosscheck == "disagree"
    code = cli.main([direction, "--poly", "z1^3+z2^2", "--max-degree", "4"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "crosscheck disagreement between classifier and oracle\n"
    assert json.loads(out)["crosscheck"] == "disagree"


@pytest.mark.parametrize("mode", ["graded", "both"])
@pytest.mark.parametrize("direction", ["cohomology", "homology"])
@pytest.mark.parametrize("poly", ["z1^2+z2^3", "z1^3+z2^4+z3^5",
                                  "z1^2+z2^2*z3+z3^4"])
def test_a_window_above_the_lowest_shift_is_caught(monkeypatch, poly,
                                                   direction, mode):
    # both witnesses read the windows from `lowest_shift`: starting one
    # weight high drops the lowest slice from both, and the crosscheck
    # still reads agree, so the oracle checks each low edge itself
    lowest = engine.lowest_shift
    monkeypatch.setattr(engine, "lowest_shift",
                        lambda side, ws, p: lowest(side, ws, p) + 1)
    with pytest.raises(AssertionError, match="lowest shift"):
        analyze(parse_polynomial(poly), direction=direction, p_max=4,
                mode=mode)


# (f, direction, p_max, highest window top, walk top, monomials walked):
# the walk reaches only the highest weight s - t the scan reads, well
# below the homology windows' top
@pytest.mark.parametrize("poly,direction,p_max,window,top,monomials", [
    ("z1^3+z2^4+z3^5", "cohomology", 4, 220, 220, 384),
    ("z1^3+z2^4+z3^5", "homology", 4, 267, 220, 384),
    ("z1^2+z2^3+z3^5", "homology", 48, 796, 105, 188),
])
def test_graded_scan_walks_the_staircase_once(monkeypatch, poly, direction,
                                              p_max, window, top, monomials):
    walks = []
    walk = grading.staircase

    def counted(lead, weights, top):
        walks.append(top)
        return walk(lead, weights, top)

    monkeypatch.setattr(grading, "staircase", counted)
    an = Analysis(parse_polynomial(poly))
    r = analyze(an.f, direction=direction, p_max=p_max, mode="graded",
                analysis=an)
    assert walks == [top]
    assert max(d.window[1] for d in r.degrees) == window
    assert sum(map(len, an.A.bases)) == monomials


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 12), min_size=n, max_size=n),
    st.integers(1, 12))))
@example(((2, 3, 9), 6))    # one weight above d
@example(((7,), 5))
def test_window_closed_form_matches_the_module_enumeration(case):
    weights, d = case
    an = SimpleNamespace(ws=WeightSystem(tuple(weights), d, False))
    for direction, side in (("cohomology", "cochain"),
                            ("homology", "chain")):
        for p in range(13):
            lo = lowest_module_shift(side, an.ws, p)
            assert _window(an, direction, p, 5) == (lo, lo + 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 12), min_size=n, max_size=n),
    st.integers(1, 12), st.integers(0, 14))))
@example(((2, 3, 9), 6, 13))
def test_top_degrees_hold_the_highest_window(case):
    weights, d, p_max = case
    an = SimpleNamespace(ws=WeightSystem(tuple(weights), d, False))
    degrees = _top_degrees(len(weights), p_max)
    assert len(degrees) <= len(weights) + 4
    for direction in ("cohomology", "homology"):
        assert max(_window(an, direction, p, 5) for p in degrees) == max(
            _window(an, direction, p, 5) for p in range(p_max + 1))


def test_report_of_too_many_slices_is_refused_before_any_window(
        monkeypatch):
    # z1^2 has weight 1, degree 2 and cutoff 6: 7 slices a degree, and
    # its cohomology windows stay below weight 8 at any p_max; the
    # refusal is above the limit, not at it
    f = parse_polynomial("z1^2")
    monkeypatch.setattr(ideals, "MAX_STANDARD_MONOMIALS", 21)
    assert len(analyze(f, p_max=2, mode="graded").degrees) == 3
    listed = []
    monkeypatch.setattr(engine, "_window",
                        lambda *args: listed.append(args) or _window(*args))
    for p_max, mode in ((3, "graded"), (10 ** 7, "structural")):
        listed.clear()
        with pytest.raises(ideals.WalkLimitError, match=(
                "^the report would list %d \\(degree, weight\\) slices, "
                "above the limit of 21$" % (7 * (p_max + 1)))):
            analyze(f, p_max=p_max, mode=mode)
        assert len(listed) <= 5


def test_window_keeps_the_variable_count_check():
    an = SimpleNamespace(ws=WeightSystem((1, 1, 1, 1), 2, False))
    with pytest.raises(ValueError, match="only 1 to 3 variables"):
        _window(an, "cohomology", 0, 6)


@pytest.mark.parametrize("poly", ["z1^2+3*z2^2*z3+z3^4",
                                  "z1^3+1/2*z1^2*z2^2+z2^6+z3^3",
                                  "z1^2*z2+z2^5", "z1^5"])
def test_structural_reports_read_no_reduced_basis(monkeypatch, poly):
    # labels depend only on leading monomials and remainders, so the
    # Milnor number, the route and a structural report never
    # interreduce a basis
    def refuse(gb):
        raise AssertionError("reduced basis read")

    monkeypatch.setattr(ideals.GroebnerBasis, "elements", property(refuse))
    f = parse_polynomial(poly)
    assert milnor_number(f) == Analysis(f).milnor
    for direction in ("cohomology", "homology"):
        r = analyze(f, direction=direction, mode="structural")
        assert r.crosscheck == "skipped"


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
    # at another base shift, so shared content tables are read there
    p_max = 6
    an = Analysis(f)
    rows = []
    ranked = []             # one entry per slice that reaches the rank
    assembled = set()       # (block signature, s - base) per slice with
    #                         columns and rows its content table is read for
    rank_sparse, block_ranks = engine.rank_sparse, Analysis._block_ranks

    def recorded(cols):
        ranked.append(len(cols))
        rows.extend(cols)
        return rank_sparse(cols)

    def recorded_block_ranks(self, columns, dom, cod, todo, dims):
        base = dom[0]
        signature = (columns, tuple(t - base for t in dom),
                     tuple(t - base for t in cod))
        for s in todo:
            if (any(self.A.basis(s - t) for t in dom)
                    and any(dims[s - t] for t in cod if s >= t)):
                assembled.add((signature, s - base))
        return block_ranks(self, columns, dom, cod, todo, dims)

    monkeypatch.setattr(engine, "rank_sparse", recorded)
    monkeypatch.setattr(Analysis, "_block_ranks", recorded_block_ranks)
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
            expected = sum(len(an.A.basis(s - t)) for t in shifts[p])
            for k, mat in enumerate(mats):
                src, tgt = cx.ends(k)
                if p in (src, tgt):
                    if (k, s) not in dense:
                        dense[k, s] = _dense_slice_rank(
                            an, mat, shifts[src], shifts[tgt], s)
                    expected -= dense[k, s]
            assert deg.oracle_graded.get(s, 0) == expected, (an.f, p, s)


def _relative_keys(cx, terms, windows) -> list:
    """Per differential k of `terms`, what its rank column depends on:
    its columns, each divided by its first k, its domain and codomain
    shifts less a, and b - a, for a..b the weights of its two ends'
    windows."""
    keys = []
    for k, columns in enumerate(terms):
        a = min(lo for lo, _ in windows[k:k + 2])
        b = max(hi for _, hi in windows[k:k + 2])
        src, tgt = cx.ends(k)
        keys.append((tuple(tuple((r, i, Fraction(c, column[0][2]))
                                 for r, i, c in column)
                           for column in columns),
                     tuple(t - a for t in cx.modules[src].shifts),
                     tuple(t - a for t in cx.modules[tgt].shifts), b - a))
    return keys


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
def test_table_scan_ranks_each_differential_once_per_weight(monkeypatch,
                                                            direction):
    f = parse_polynomial("z1^4+z2^4+z3^4+z1*z2*z3^2")
    scans = []          # direction per oracle_dim call
    current = []        # k of the differential whose ends were read last
    ranked = {}         # k -> the weights of each _block_ranks call
    assembled = []      # (content table, key) per slice assembled
    oracle_dim, block_ranks = Analysis.oracle_dim, Analysis._block_ranks
    ends = KoszulComplex.ends

    class RecordedContents(dict):
        def __setitem__(self, key, rank):
            assembled.append((id(self), key))
            dict.__setitem__(self, key, rank)

    class RecordedTables(dict):
        # each block signature's content table records its writes
        def setdefault(self, signature, contents):
            return dict.setdefault(self, signature, RecordedContents(contents))

    def recorded_oracle_dim(self, direction, windows):
        scans.append(direction)
        return oracle_dim(self, direction, windows)

    def recorded_ends(self, k):
        # the scan reads a differential's ends before it keys it
        current[:] = [k]
        return ends(self, k)

    def recorded_block_ranks(self, columns, dom, cod, todo, dims):
        ranked.setdefault(current[0], []).append(list(todo))
        return block_ranks(self, columns, dom, cod, todo, dims)

    monkeypatch.setattr(Analysis, "oracle_dim", recorded_oracle_dim)
    monkeypatch.setattr(Analysis, "_block_ranks", recorded_block_ranks)
    monkeypatch.setattr(KoszulComplex, "ends", recorded_ends)
    an = Analysis(f)
    an._tables = RecordedTables()
    r = analyze(f, direction=direction, p_max=6, mode="graded", analysis=an)
    assert scans == [direction]
    assert assembled and len(set(assembled)) == len(assembled)
    windows = [deg.window for deg in r.degrees]
    build = cochain_complex if direction == "cohomology" else chain_complex
    cx = build(f, len(windows))
    terms = cx.verify_entries()
    cx.assign_weights(an.ws)
    # each distinct relative differential is ranked once, every block of
    # it at the same ascending weights, each read once
    keys = _relative_keys(cx, terms, windows)
    assert len({keys[k] for k in ranked}) == len(ranked)
    for k, todos in ranked.items():
        assert all(todo == todos[0] for todo in todos), k
        assert all(map(int.__lt__, todos[0], todos[0][1:])), k
        for s in todos[0]:
            for q in (k, k + 1):
                assert any(an.A.basis(s - t)
                           for t in cx.modules[q].shifts), (k, s)


@pytest.mark.parametrize("f, p_max, cutoff", [
    (parse_polynomial("z1^7+z2^11+z3^13"), 12, 0),
    (parse_polynomial("z1^2+z2^3+z3^5"), 48, None),
    (catalog_instance("d5-curve").f, 6, None)],
    ids=["brieskorn-7-11-13-cutoff-0", "e8-surface-p48", "d5-curve"])
@pytest.mark.parametrize("direction", ["cohomology", "homology"])
def test_oracle_ranks_exactly_where_both_totals_are_nonzero(
        monkeypatch, f, p_max, cutoff, direction):
    # ranking a weight whose slice has an empty end costs time and
    # changes no report, so the weights each differential k is ranked
    # at are pinned: those of windows[k] and windows[k + 1] where both
    # ends' module totals, read from the closed-form dims of A, are
    # nonzero, in ascending order; a differential with none is not
    # ranked, nor one whose relative differential (`_relative_keys`)
    # an earlier one has.  At cutoff 0 the cochain windows of the first
    # f alternate between weights 0 and 858, so a gap parts the two
    # ends' windows
    calls = []              # (k, todo) per _block_ranks call
    current = []            # k of the differential being ranked
    block_ranks, ends = Analysis._block_ranks, KoszulComplex.ends

    def recorded_ends(self, k):
        current[:] = [k]
        return ends(self, k)

    def recorded_block_ranks(self, columns, dom, cod, todo, dims):
        calls.append((current[0], list(todo)))
        return block_ranks(self, columns, dom, cod, todo, dims)

    monkeypatch.setattr(KoszulComplex, "ends", recorded_ends)
    monkeypatch.setattr(Analysis, "_block_ranks", recorded_block_ranks)
    r = analyze(f, direction=direction, p_max=p_max, cutoff=cutoff)
    assert r.crosscheck == "agree"
    windows = [deg.window for deg in r.degrees]
    build = cochain_complex if direction == "cohomology" else chain_complex
    cx = build(f, len(windows))
    terms = cx.verify_entries()
    cx.assign_weights(r.weights)
    dims = poincare_dims(r.weights.weights, r.weights.degree,
                         max(hi for _, hi in windows))

    def total(q, s):
        return sum(dims[s - t] for t in cx.modules[q].shifts if s >= t)

    expected = {}
    for k in range(len(windows)):
        todo = sorted({s for lo, hi in windows[k:k + 2]
                       for s in range(lo, hi + 1)
                       if total(k, s) and total(k + 1, s)})
        if todo and any(terms[k]):
            expected[k] = todo
    assert expected
    first: dict = {}        # relative differential -> first k with it
    keys = _relative_keys(cx, terms, windows)
    for k in sorted(expected):
        first.setdefault(keys[k], k)
    for k, todo in calls:
        assert all(map(int.__lt__, todo, todo[1:])), k
        assert todo == expected[k], k
    ranked = {k for k, _ in calls}
    assert ranked == set(first.values())
    if p_max == 48:
        # the 2-periodic tail repeats two differentials, translated by d
        # in homology: 5 relative differentials among 49, and the first,
        # d^0 = 0 in cohomology and d_1 = 0 in homology, has no terms
        assert (len(ranked), len(set(keys)), len(terms)) == (4, 5, 49)
    if cutoff == 0 and direction == "cohomology":
        assert windows[:2] == [(0, 0), (858, 858)]
    for deg in r.degrees:
        for graded in (deg.oracle_graded, deg.expected_graded):
            assert list(graded) == sorted(graded)
            assert all(graded.values())


# each f reaches a product's normal form through a different part of
# the offset frontier of `_reduce_maps`: in the first, d_1 f carries the
# Fraction 3/2 through one reduction step by f; the third has two-term
# partials, the Fraction 1/2 in the tail of f, and tail products that
# one step leaves non-standard, which step again from a lower offset;
# in the fourth, d_1 f * z1*z2^30 takes one step to a standard product
_IMAGE_POLYS = ["1/2*z1^3+z2^5", "z1^7+z2^11+z3^13",
                "z1^3+1/2*z1^2*z2^2+z2^6+z3^25", "z1^2+z2^2"]


def _map_content(an, i, u):
    """The images of M_i(u) as {exponents: coefficient} dicts, one per
    monomial of `an.A.basis(u)`, positions mapped back through the basis
    of the product weight; A is filled through that weight first.  The
    maps are reduced by one call through u, and M_i(u) must equal its
    content on a fresh Analysis that reduces it alone, after a call
    through u - 1."""
    weight = u + an.ws.degree - an.ws.weights[i - 1]
    basis = an.A.basis(weight)
    an._reduce_maps(i, u)
    images = an._interned[an._maps[i - 1][u]]
    alone = Analysis(an.f)
    alone.A.basis(weight)
    alone._reduce_maps(i, u - 1)
    alone._reduce_maps(i, u)
    assert alone._interned[alone._maps[i - 1][u]] == images
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


def test_image_above_the_filled_basis_fails_loudly():
    # one weight reduced alone: the maps below it are reduced first
    # z2^10 is standard, but the basis of A is filled only through the
    # domain weight 0
    an = Analysis(parse_polynomial("z1^7+z2^11+z3^13"))
    with pytest.raises(LookupError, match="above the filled basis"):
        an._reduce_maps(2, 0)
    # 2*z1*z2^30 is standard but lies past the filled weight 30
    an = Analysis(parse_polynomial("z1^2+z2^2"))
    an.A.basis(30)
    an._reduce_maps(1, 29)
    with pytest.raises(LookupError, match=r"\(1, 30\) lies above the "
                       "filled basis"):
        an._reduce_maps(1, 30)
    # A_5 is z1 alone, and z1 * 3/2*z1^2 takes one step to the tail
    # product -3*z2^5, standard but past the filled weight 14, so not
    # in the index
    an = Analysis(parse_polynomial("1/2*z1^3+z2^5"))
    an.A.basis(14)
    an._reduce_maps(1, 4)
    with pytest.raises(LookupError, match=r"\(0, 5\) lies above the "
                       "filled basis"):
        an._reduce_maps(1, 5)
    assert an.A.basis(5) == ((1, 0),)


# besides the above: z1^7+z2^11+z3^13 reads partials 2 and 3 at the
# offsets of d_i f alone, and partial 1 takes one step by f; where two
# sources of an image meet at one offset, they are summed: in
# -z1*z2+z1*z3-z2^2-z2*z3 to 0, and in z1^3+z1^2*z2+z2^3, where the
# term 2*z1^3*z2 of d_1 f * z1^2 meets the one-step image of 3*z1^4, to
# -z1^3*z2, which steps again
_BATCH_POLYS = _IMAGE_POLYS + ["-z1*z2+z1*z3-z2^2-z2*z3",
                               "z1^3+z1^2*z2+z2^3"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_BATCH_POLYS),
       st.lists(st.lists(st.integers(0, 8), min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.lists(st.integers(0, 30), max_size=3),
       st.integers(1, 3))
@example("z1^7+z2^11+z3^13", [[1, 0, 0], [2, 3, 1]], [1, 2], 1)
@example("1/2*z1^3+z2^5", [[1, 0, 0], [2, 1, 0]], [1, 2, 4], 1)
@example("-z1*z2+z1*z3-z2^2-z2*z3", [[1, 0, 0], [1, 1, 2]], [], 2)
@example("z1^3+z1^2*z2+z2^3", [[2, 0, 0]], [0, 5], 1)
def test_map_batch_matches_normal_form(poly, exps, extra, i):
    # one call through the highest of several weights, the weights of
    # drawn monomials and arbitrary ones, so that some A_u are empty:
    # every image of every M_i(u) is the normal form of d_i f times its
    # monomial, and every map equals its content when the calls run
    # through each drawn weight in turn
    an = Analysis(parse_polynomial(poly))
    i = min(i, an.n)
    shift = an.ws.degree - an.ws.weights[i - 1]
    us = sorted({sum(w * e for w, e in zip(an.ws.weights, m[:an.n]))
                 for m in exps} | set(extra))
    an.A.basis(us[-1] + shift)
    an._reduce_maps(i, us[-1])
    steps = Analysis(an.f)
    steps.A.basis(us[-1] + shift)
    for u in us:
        steps._reduce_maps(i, u)
    assert [steps._interned[m] for m in steps._maps[i - 1]] == \
        [an._interned[m] for m in an._maps[i - 1]]
    for u in us:
        images = an._interned[an._maps[i - 1][u]]
        assert len(images) == len(an.A.basis(u))
        basis = an.A.basis(u + shift)
        for mono, image in zip(an.A.basis(u), images):
            expected = an.gb_f.normal_form(an.grad[i - 1]
                                           * Polynomial.monomial(an.n, mono))
            assert {basis[r]: v for r, v in image} == expected.terms
            assert len(image) == len(expected.terms)
            for _, v in image:
                assert type(v) is (int if v.denominator == 1 else Fraction)


def test_batch_above_the_filled_basis_fails_loudly():
    # in one call through several weights only the highest u's products
    # lie past the filled basis; a reduction step keeps the weight, so
    # they stay out of the index however far they are reduced, and the
    # call raises with the message of a one-weight call
    an = Analysis(parse_polynomial("z1^2+z2^2"))
    with pytest.raises(LookupError, match=r"\(1, 30\) lies above the "
                       "filled basis"):
        an._reduce_maps(1, 30)
    # A is filled through weight 14: d_1 f * 1 and d_1 f * z2 are
    # standard there, and d_1 f * z1 is past it
    an = Analysis(parse_polynomial("1/2*z1^3+z2^5"))
    an.A.basis(14)
    with pytest.raises(LookupError, match=r"\(0, 5\) lies above the "
                       "filled basis"):
        an._reduce_maps(1, 5)


def test_batch_guard_names_the_first_product_lead_f_fails():
    # lead(f) = z1^2*z2, and A is filled through weight 6; at the offset
    # of z1^2 in d_2 f = z1^2 + 4*z2^3, the first missed product
    # z1^2*z2 is divisible by lead(f) and steps by f, and the next,
    # z1^3 at weight 9, is standard past the filled basis: it passes
    # lead(f) in z1 and fails it in z2
    an = Analysis(parse_polynomial("z1^2*z2+z2^4"))
    assert an._step[0] == (2, 1)
    with pytest.raises(LookupError, match=r"^standard monomial \(3, 0\) "
                       r"lies above the filled basis of A$"):
        an._reduce_maps(2, 6)


def test_products_that_one_step_leaves_nonstandard_need_no_division(
        monkeypatch):
    # the two-term partials of this f have tail products that one
    # reduction step by f leaves non-standard; the oracle reduces them
    # by offset alone, never through `ideals._reduce`, and its report
    # matches a fresh one
    f = parse_polynomial("z1^3+1/2*z1^2*z2^2+z2^6+z3^25")
    fresh = report_payload(analyze(f, p_max=4, mode="graded"))
    an = Analysis(f)

    def refuse(terms, divisors):
        raise AssertionError("ideals._reduce called on %r" % (terms,))

    monkeypatch.setattr(ideals, "_reduce", refuse)
    assert report_payload(analyze(f, p_max=4, mode="graded",
                                  analysis=an)) == fresh


# (direction, p_max, cutoff as a multiple of d, mode)
_SHARED_RUNS = [("cohomology", 4, 1, "both"), ("homology", 9, 3, "both"),
                ("cohomology", 12, 5, "graded")]


@pytest.mark.parametrize("poly", ["z1^3+1/2*z1^2*z2^2+z2^6+z3^25",
                                  "z1^7+z2^11+z3^13", "2*z1^3+z1^2*z2+z2^3"])
def test_shared_analysis_reports_match_fresh_ones(poly):
    # each run asks for higher weights than the last, so the shared A is
    # re-walked under images cached as positions
    f = parse_polynomial(poly)
    shared = Analysis(f)
    walked = len(shared.A.bases)
    for direction, p_max, cutoff, mode in _SHARED_RUNS:
        kwargs = dict(direction=direction, p_max=p_max,
                      cutoff=cutoff * shared.ws.degree, mode=mode)
        assert report_payload(analyze(f, analysis=shared, **kwargs)) == \
            report_payload(analyze(f, **kwargs))
        assert len(shared.A.bases) > walked
        walked = len(shared.A.bases)


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


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
@pytest.mark.parametrize("cutoff", [0, 1, 5])
@pytest.mark.parametrize("poly", ["z1^7+z2^11+z3^13", "1/2*z1^3+z2^5",
                                  "z1^2*z2", "z1^2+z2^3+z3^5"])
def test_oracle_matches_dense_reference_on_gapped_windows(poly, cutoff,
                                                          direction):
    # windows narrower than the step between neighbouring degrees'
    # lowest shifts, so a gap parts the windows of a differential's two
    # ends (every pair for the first f), and the dense rank list of a
    # differential spans weights that neither end reads.  The last f
    # runs to p 12, where its 2-periodic tail reuses two rank columns
    # many times, translated by d in homology
    f = parse_polynomial(poly)
    an = Analysis(f)
    p_max = 12 if poly == "z1^2+z2^3+z3^5" else 6
    r = analyze(f, direction=direction, p_max=p_max, cutoff=cutoff,
                mode="graded", analysis=an)
    windows = [d.window for d in r.degrees]
    gapped = sum(hi + 1 < lo2 or hi2 + 1 < lo
                 for (lo, hi), (lo2, hi2) in zip(windows, windows[1:]))
    if poly == "z1^7+z2^11+z3^13":
        assert gapped == 6
    _assert_oracle_matches_dense(an, r, direction)


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
@pytest.mark.parametrize("poly", ["z1^2+z2^3+z3^5", "1/2*z1^3+z2^5",
                                  "z1^2*z2+z2^4"])
def test_oracle_matches_dense_reference_on_widening_windows(poly,
                                                            direction):
    # `oracle_dim` takes any high edge per degree: windows that widen
    # with p give each recurring module and differential of the
    # 2-periodic tail a wider span than its first occurrence, whose
    # totals and rank columns must not be read for it
    f = parse_polynomial(poly)
    an = Analysis(f)
    side = "cochain" if direction == "cohomology" else "chain"
    lows = [engine.lowest_shift(side, an.ws, p) for p in range(9)]
    windows = [(lo, lo + 3 * p) for p, lo in enumerate(lows)]
    slices = an.oracle_dim(direction, windows)
    r = SimpleNamespace(degrees=[
        SimpleNamespace(window=window, oracle_graded=graded)
        for window, graded in zip(windows, slices)])
    _assert_oracle_matches_dense(an, r, direction)


# the first two have Fraction coefficients in d_i f or in the tail of
# monic f, the others int coefficients only; in the fifth, the two terms
# of d_1 f * z1 reach z1*z3 with opposite coefficients, one of them
# after a reduction step, so an image drops a sum of 0; in the last, a
# term of d_1 f * z1^2 meets the one-step image of the other, and their
# sum steps again
@pytest.mark.parametrize("poly", ["1/2*z1^3+z2^5",
                                  "z1^3+1/2*z1^2*z2^2+z2^6+z3^25",
                                  "z1^4+z2^4+z3^4+z1*z2*z3^2",
                                  "z1^7+z2^11+z3^13",
                                  "-z1*z2+z1*z3-z2^2-z2*z3",
                                  "z1^3+z1^2*z2+z2^3"])
def test_map_batch_matches_one_weight_at_a_time(poly):
    # one call through the last weight, empty A_u among the weights,
    # reduces every M_i(u) to the content of calls through each u in
    # turn, each of which reduces u alone
    f = parse_polynomial(poly)
    batch, single = Analysis(f), Analysis(f)
    d = batch.ws.degree
    weights = range(2 * d)
    for an in (batch, single):
        an.A.basis(3 * d)
    kinds = set()
    for i in range(1, batch.n + 1):
        batch._reduce_maps(i, weights[-1])
        for u in weights:
            single._reduce_maps(i, u)
        assert len(batch._maps[i - 1]) == len(single._maps[i - 1]) == 2 * d
        for u in weights:
            images = batch._interned[batch._maps[i - 1][u]]
            assert images == single._interned[single._maps[i - 1][u]]
            assert len(images) == len(batch.A.basis(u))
            for image in images:
                for _, v in image:
                    assert v and type(v) is (int if v.denominator == 1
                                             else Fraction)
                    kinds.add(type(v))
    assert kinds == ({int, Fraction} if "/" in poly else {int})


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
@pytest.mark.parametrize("poly", ["z1^4+z2^4+z3^4+z1*z2*z3^2",
                                  "z1^2+z3^45"])
def test_oracle_reduces_each_partial_once_per_report(monkeypatch, poly,
                                                     direction):
    # every report of a shared Analysis reduces each nonzero partial's
    # maps in one call, in partial order, before any block is ranked;
    # d_2 f of the second f is 0, and a block rank that reduced a map
    # would raise
    reduce_maps, block_ranks = Analysis._reduce_maps, Analysis._block_ranks
    calls = []
    ranking = []

    def recorded_reduce_maps(self, i, last):
        if ranking:
            raise AssertionError("_block_ranks reduced M_%d" % i)
        calls.append(i)
        return reduce_maps(self, i, last)

    def recorded_block_ranks(self, *args):
        ranking.append(True)
        try:
            return block_ranks(self, *args)
        finally:
            ranking.pop()

    monkeypatch.setattr(Analysis, "_reduce_maps", recorded_reduce_maps)
    monkeypatch.setattr(Analysis, "_block_ranks", recorded_block_ranks)
    f = parse_polynomial(poly)
    an = Analysis(f)
    partials = [i for i, g in enumerate(an.grad, 1) if not g.is_zero()]
    assert partials == ([1, 3] if poly == "z1^2+z3^45" else [1, 2, 3])
    for p_max in (3, 6):
        calls.clear()
        analyze(f, direction=direction, p_max=p_max, mode="graded",
                analysis=an)
        assert calls == partials
    assert None not in an._maps[0]


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
def test_every_report_checks_its_own_complex(monkeypatch, direction):
    # nothing of a layout outlives its report: a sign-flip mutant of the
    # differentials fails d^2 = 0 in the report after a clean one, and a
    # shift one too high on each component with an odd generator fails
    # the weight check of the report after that
    f = parse_polynomial("z1^3+z2^4+z3^5")
    analyze(f, direction=direction, mode="graded")
    differential = koszul._differential

    def flipped(*args):
        # the last term of every column with two or more changes sign
        return tuple(column[:-1] + ((column[-1][0], column[-1][1],
                                     -column[-1][2]),)
                     if len(column) > 1 else column
                     for column in differential(*args))

    with monkeypatch.context() as m:
        m.setattr(koszul, "_differential", flipped)
        with pytest.raises(AssertionError, match="d o d"):
            analyze(f, direction=direction, mode="graded")
    analyze(f, direction=direction, mode="graded")
    shift = koszul.shift
    monkeypatch.setattr(koszul, "shift", lambda direction, ws, e:
                        shift(direction, ws, e) + bool(e.odd))
    with pytest.raises(AssertionError, match="has weight"):
        analyze(parse_polynomial("z1^2+z2^3+z3^7"), direction=direction,
                mode="graded")


def test_strand_blocks_of_hand_built_columns():
    # domain components 0 and 2 meet in codomain row 1; component 1 is a
    # zero column; component 3 alone hits rows 0 and 4; rows 2 and 3 are
    # hit by no column
    columns = (((1, 1, 2),), (), ((1, 2, -1), (5, 3, 4)),
               ((4, 1, 1), (0, 2, 3)))
    assert _strand_blocks(columns) == [
        ((((0, 1, 2),), ((0, 2, -1), (1, 3, 4))), (0, 2), (1, 5)),
        ((((1, 1, 1), (0, 2, 3)),), (3,), (0, 4)),
    ]
    assert _strand_blocks(((), ())) == []


def _hand_built_analysis(basis, images):
    """An Analysis whose A has the standard monomials `basis[w]` at
    weight w < 20 and whose d_i f * z^mono reduces to `images[i, mono]`, a
    single term (position, 1): d_i f is the monomial z2^(100 i), and the
    position index places each product.  Its map and rank caches are
    real.  The dims list it returns holds len(basis[w]) at weight w."""
    an = Analysis(parse_polynomial("z1^2+z2^2"))
    an.grad = [Polynomial(2, {(0, 100 * i): 1}) for i in (1, 2)]
    position = {(a, b + 100 * i): pos
                for (i, (a, b)), ((pos, _),) in images.items()}
    bases = [tuple(basis.get(w, ())) for w in range(20)]
    an.A = SimpleNamespace(basis=lambda w: bases[w] if w >= 0 else (),
                           bases=bases, position=position)
    return an, list(map(len, bases))


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
    # s - t reaches 6 on partial 1 and 1 on partial 2
    an._reduce_maps(1, 6)
    an._reduce_maps(2, 1)
    columns = (((0, 1, 1),), ((0, 1, 1), (1, 2, 1)))
    weights, ranks = [2, 3, 6], [2, 2, 1]
    assert an._block_ranks(columns, (0, 5), (-10, -10), weights,
                           dims) == ranks
    for s, rank in zip(weights, ranks):
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
    an._reduce_maps(1, 2)
    an._reduce_maps(2, 2)
    signatures = [
        ((((0, 1, 1), (1, 2, 1)), ((0, 1, 1), (1, 2, 1))), (-10, -10), 1),
        ((((0, 1, 1), (1, 2, 1)), ((0, 1, 1), (1, 2, -1))), (-10, -10), 2),
        ((((0, 1, 1),), ((1, 1, 1),)), (-10, -10), 2),
        ((((0, 1, 1),), ((0, 1, 1),)), (-10,), 1)]
    for columns, cod, rank in signatures:
        assert an._block_ranks(columns, (0, 1), cod, [2], dims) == [rank]
        assert _fresh_slice_rank(an, columns, (0, 1), 2, images) == rank
    # four signatures, four content tables, one slice in each
    assert list(map(len, an._tables.values())) == [1] * 4


def test_block_rank_of_an_empty_domain_is_zero(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "rank_sparse", calls.append)
    # at s = 2 the domain shifts 0 and 5 read A_2, which is empty, and
    # A_(-3); the rows at weight 12 are there.  No image is given, so a
    # product lookup would raise LookupError
    an, dims = _hand_built_analysis(dict(_ROWS), {})
    an._reduce_maps(1, 2)
    an._reduce_maps(2, 2)
    columns = (((0, 1, 1),), ((0, 1, 1), (1, 2, 1)))
    assert an._block_ranks(columns, (0, 5), (-10, -10), [2], dims) == [0]
    assert calls == []
    assert an._maps[0][2] == 0


def test_block_slice_assembly_matches_the_reference(monkeypatch):
    calls = []

    def recorded(cols):
        calls.append(cols)
        return rank_sparse(cols)

    monkeypatch.setattr(engine, "rank_sparse", recorded)
    x, y = ((0, 1),), ((1, 1),)
    # one block at s = 2 and s = 3, its two codomain components taking
    # the two rows at weight s + 10 each: component 0 is one term at
    # offset 0, whose images are copied as they stand, component 1 one
    # term at offset 2, and component 2 two terms, the second scaled by
    # 2, which join the block; the last two are summed per monomial
    basis = {2: [(2, 0), (1, 1)], 3: [(3, 0), (2, 1)], **_ROWS}
    images = {(1, (2, 0)): x, (1, (1, 1)): y, (1, (3, 0)): y,
              (1, (2, 1)): y, (2, (2, 0)): y, (2, (1, 1)): x,
              (2, (3, 0)): x, (2, (2, 1)): x}
    an, dims = _hand_built_analysis(basis, images)
    an._reduce_maps(1, 3)
    an._reduce_maps(2, 3)
    columns = (((0, 1, 1),), ((1, 1, 1),), ((0, 1, 1), (1, 2, 2)))
    dom, cod, weights = (0, 0, 0), (-10, -10), [2, 3]
    assert an._block_ranks(columns, dom, cod, weights, dims) == [4, 3]
    # each slice is ranked once, from the columns the reference
    # assembles one comprehension per domain monomial, in its order
    assert len(calls) == 2
    for s, cols in zip(weights, calls):
        key = [an._maps[i - 1][s] for terms in columns for _, i, _ in terms]
        reference = block_slice_columns(columns, [0, dims[s + 10]], key,
                                        an._interned)
        assert cols == reference
        assert rank_sparse(reference) == \
            _fresh_slice_rank(an, columns, dom, s, images)


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
            finite.append(standard_monomials(gb_k, an.n) is not None)
        route = an.route()
        if any(finite):
            i = finite.index(True) + 1
            others, colon = bases[i - 1]
            std_j = standard_monomials(buchberger([f] + others), an.n)
            in_k = set(standard_monomials(colon, an.n))
            assert route.solved == i, f
            assert route.basis == tuple(m for m in std_j if m not in in_k), f
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
    assert standard_monomials(gb, 2) is not None
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
    the one-rule `_degree`: (structure label, finite source, shift, free
    formula s -> dim, or None), with A(s) = dim A_s."""
    n = an.n
    d, w = an.ws.degree, an.ws.weights
    W = sum(w)

    if p == 0:
        return ("A", None, 0, lambda s: A(s))

    if direction == "cohomology":
        if n == 1:
            if p % 2 == 0:
                return ("C^%d", "milnor", 0, None)
            return ("C^%d", "kj", d - w[0], None)
        if n == 2:
            c = 2 * d - w[0] - w[1]
            if p == 1:
                return ("A + C^%d", "kj", d - w[route.solved - 1],
                        lambda s: A(s - c))
            if p % 2 == 0:
                return ("C^%d", "milnor", 0, None)
            return ("C^%d", "kj", d - w[route.solved - 1], None)
        # n == 3
        if p == 1:
            def free(s):
                return (sum(A(s - 2 * d + W - wi) for wi in w)
                        - A(s - 3 * d + W))
            return ("(grad f ^ A^3) + C^%d", "kj", d - w[route.solved - 1], free)
        if p == 2:
            c = 3 * d - W
            return ("A + C^%d", "milnor", 0, lambda s: A(s - c))
        if p % 2 == 1:
            return ("C^%d", "kj", d - w[route.solved - 1], None)
        return ("C^%d", "milnor", 0, None)

    # homology
    q = p // 2
    if n == 1:
        if p % 2 == 0:
            return ("C^%d", "kj", q * d, None)
        return ("C^%d", "milnor", q * d + w[0], None)
    if n == 2:
        if p == 1:
            def quot(s):
                return sum(A(s - wi) for wi in w) - A(s - d)
            return ("A^2/(A grad f)", None, None, quot)
        if p % 2 == 0:
            return ("C^%d", "milnor", (q - 1) * d + w[0] + w[1], None)
        j = 3 - route.solved     # the back-substituted index
        return ("C^%d", "kj", q * d + w[j - 1], None)
    # n == 3
    if p == 1:
        def quot1(s):
            return sum(A(s - wi) for wi in w) - A(s - d)
        return ("grad f ^ A^3", None, None, quot1)
    if p == 2:
        def quot2(s):
            pairs = A(s - w[0] - w[1]) + A(s - w[1] - w[2]) + A(s - w[0] - w[2])
            image = sum(A(s - d - wi) for wi in w) - A(s - 2 * d)
            return pairs - image
        return ("A^3/(grad f ^ A^3)", None, None, quot2)
    if p % 2 == 1:
        return ("C^%d", "milnor", (q - 1) * d + W, None)
    return ("C^%d", "kj", (q - 1) * d + W - w[route.solved - 1], None)


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
                structure, source, shift, free = _degree(an, route,
                                                         direction, p)
                ref_structure, ref_source, ref_shift, ref_free = \
                    _table_degree(an, route, direction, A, p)
                assert (structure, source) == (ref_structure, ref_source), \
                    (f, p)
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
        if not report.notes:
            assert report.crosscheck == "agree", (f, direction)
            if direction == "cohomology":
                assert report.kernel.verified, f
        else:
            assert len(report.notes) == 1
            assert ("non-isolated" in report.notes[0]
                    or "no valid elimination route" in report.notes[0])


@pytest.mark.parametrize("direction", ["cohomology", "homology"])
@pytest.mark.parametrize("cutoff", [0, 1, 5])
@pytest.mark.parametrize("poly", ["z1^7+z2^11+z3^13", "1/2*z1^3+z2^5",
                                  "z1^3+1/2*z1^2*z2^2+z2^6+z3^25",
                                  "z1^4+z2^4+z3^4+z1*z2*z3^2"])
def test_classifier_fill_at_narrow_windows(poly, cutoff, direction):
    # at these windows some degree's finite part reaches past an edge of
    # its window, and `_classify` must drop exactly what lies outside
    f = parse_polynomial(poly)
    an = Analysis(f)
    r = analyze(f, direction=direction, p_max=6, cutoff=cutoff, mode="both",
                analysis=an)
    assert r.crosscheck == "agree"
    route = an.route()
    crossing = 0
    for deg in r.degrees:
        lo, hi = deg.window
        assert all(lo <= s <= hi for s in deg.expected_graded), deg.p
        _, source, shift, _ = _degree(an, route, direction, deg.p)
        if source is not None:
            monos = an.milnor_basis if source == "milnor" else route.basis
            finite = {sum(w * e for w, e in zip(an.ws.weights, m)) + shift
                      for m in monos}
            crossing += not finite <= set(range(lo, hi + 1))
    assert crossing


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 12)] * n), unique=True,
             max_size=30),
    st.tuples(*[st.integers(1, 40)] * n))))
@example(([(0, 0, 0)], (3, 2, 1)))
@example(([(0,), (2,), (1,)], (4,)))
@example(([], (2, 3)))
def test_finite_sources_are_graded_and_labelled_in_column_passes(case):
    # the classifier grades and labels a finite source in column passes;
    # both must equal the per-monomial results, the grading's keys in
    # order of first occurrence too, since its degrees list them so
    monomials, weights = case
    assert monomial_strs(monomials) == tuple(map(monomial_str, monomials))
    graded: dict = {}
    for m in monomials:
        t = sum(w * e for w, e in zip(weights, m))
        graded[t] = graded.get(t, 0) + 1
    assert list(_graded(weights, monomials).items()) == list(graded.items())
